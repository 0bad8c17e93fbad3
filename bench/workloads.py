"""Seeded operations for the three workloads, and the correctness gate.

Every expectation below is written from the mathematics or from the
documented behaviour, never read back from the program under test:

* geometric family ``d(n) = N^n, k(n) = 1``: omega = 1/(N + 1), so the
  corner upper bound 1/(1 - 2 omega) is (N + 1)/(N - 1);
* N = 3 and N = 4 are exactly Refuted by the constraints;
* N >= 6 is Certified on every horizon used here; for N = 5 the lower
  certificate search succeeds on some horizons and not on others, so
  both Certified and InconclusiveAtHorizon (with that reason) pass;
* an explicit family without a tail majorant is never better than
  InconclusiveAtHorizon;
* the square-zero ring gives min_rank = 2k and top coefficient (-1)^k;
* the intertwining ladder of the N = 6 family has grid-independent step
  distances LADDER, each below its bound 2/(6^(n+1) + 1).

A workload is an endless sequence of rounds.  Every round holds the same
mix of operation kinds; the seed picks the order inside a round and, for
``cli-mix``, the horizons and spec lengths.  Runs always measure whole
rounds, so two seeds load each layer in the same proportions.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Callable, Optional

CERTIFIED = "Certified"
REFUTED = "Refuted"
INCONCLUSIVE = "InconclusiveAtHorizon"

# Step distances of the N = 6 ladder, independent of the grid size.
LADDER = (
    "1/28",
    "3/518",
    "351/449624",
    "2916/72895291",
    "944784/566906678107",
    "7346640384/26450164880438299",
    "214228033597440/7404379806135256107163",
    "23988055525253185536/12436522196841480456944796571",
    "10072680467275913619308544/125331502433542797076511205569176987",
    "101509411654344605577651236634624/7578316809822529505103409098429241440268699",
)

CLI_NS = (3, 4, 5, 6, 8, 12)
SPEC_NS = (6, 8, 12)
CHERN_KS = (8, 9, 10)
# cli-mix horizons come from six bands covering [20, 80]; rotating the
# band against N keeps every (N, band) pair equally frequent.
BANDS = ((20, 29), (30, 39), (40, 49), (50, 59), (60, 69), (70, 80))
DEEP_NS = (5, 6, 8)
DEEP_HORIZONS = (120, 160, 200)
LADDER_STAGES = (6, 8, 10)
LADDER_GRIDS = (128, 192, 256)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI argv or a library config."""

    argv: Optional[tuple] = None
    config: Optional[dict] = None
    check: Callable = None  # result -> list of problems


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str
    payload: object  # the parsed report, or None when stdout is not JSON


def upper_bound(N: int) -> str:
    f = Fraction(N + 1, N - 1)
    return f"{f.numerator}/{f.denominator}"


def reverified_all(payload) -> bool:
    """Every ``reverified`` field anywhere in the report is true."""
    if isinstance(payload, dict):
        return all(
            (v is True) if k == "reverified" else reverified_all(v)
            for k, v in payload.items()
        )
    if isinstance(payload, list):
        return all(reverified_all(v) for v in payload)
    return True


def count_checks(payload) -> int:
    """Number of recorded checks in a rendered report."""
    if isinstance(payload, dict):
        return sum(
            (len(v) if k == "checks" and isinstance(v, list) else 0) + count_checks(v)
            for k, v in payload.items()
        )
    if isinstance(payload, list):
        return sum(count_checks(v) for v in payload)
    return 0


def count_object_checks(value, seen=None) -> int:
    """Number of recorded checks (objects with lhs, rel, rhs and holds)
    reachable from a result object, for ops that render no report."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if all(hasattr(value, a) for a in ("lhs", "rel", "rhs", "holds")):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(count_object_checks(v, seen) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return sum(count_object_checks(getattr(value, f.name), seen) for f in fields(value))
    return 0


def cli_check(allowed, extra=None):
    """Gate for a CLI op: exit code and verdict in ``allowed``, parseable
    JSON, every ``reverified`` true, plus the op's own ``extra`` checks."""

    def check(result: CliResult):
        payload = result.payload
        if not isinstance(payload, dict):
            return [f"report is not a JSON object; stderr: {result.stderr[-200:]}"]
        problems = []
        got = (result.code, payload.get("verdict"))
        if got not in allowed:
            problems.append(f"exit/verdict {got}, expected one of {sorted(allowed)}")
        if not reverified_all(payload):
            problems.append("a reverified field is not true")
        if extra is not None:
            problems.extend(extra(payload))
        return problems

    return check


def _expect(cond, message):
    return [] if cond else [message]


def _certify_extra(N, tail):
    def extra(payload):
        problems = []
        verdict = payload.get("verdict")
        notes = " ".join(payload.get("notes", []))
        if verdict == INCONCLUSIVE and tail:
            problems += _expect(
                "lower certificate search inconclusive" in notes,
                f"inconclusive without the search reason: {notes[:120]}",
            )
        if not tail:
            problems += _expect("no tail majorant" in notes, "missing no-tail note")
        if verdict == CERTIFIED:
            got = (payload.get("rc_upper") or {}).get("certified_limit_bound")
            problems += _expect(
                got == upper_bound(N), f"upper bound {got} != {upper_bound(N)}"
            )
        return problems

    return extra


def certify_allowed(N: int):
    if N in (3, 4):
        return {(1, REFUTED)}
    if N == 5:
        return {(0, CERTIFIED), (2, INCONCLUSIVE)}
    return {(0, CERTIFIED)}


def _ladder_extra(stages):
    def extra(payload):
        inter = payload.get("intertwining", {})
        bounds = [f"2/{6 ** (n + 1) + 1}" for n in range(stages)]
        problems = _expect(
            inter.get("step_distances") == list(LADDER[:stages]),
            f"step distances {inter.get('step_distances')} differ from the ladder",
        )
        problems += _expect(inter.get("step_bounds") == bounds, "step bounds differ")
        problems += _expect(inter.get("all_within_bounds") is True, "a step exceeds its bound")
        return problems

    return extra


def _chern_extra(k_max):
    def extra(payload):
        rows = [
            (row.get("k"), row.get("min_rank"), row.get("top_coefficient"))
            for row in payload.get("embedding_ranks", [])
        ]
        want = [(k, 2 * k, (-1) ** k) for k in range(k_max + 1)]
        return _expect(rows == want, "embedding ranks differ from 2k, (-1)^k")

    return extra


def _upper_extra(N):
    def extra(payload):
        got = payload.get("rc_upper", {}).get("certified_limit_bound")
        return _expect(got == upper_bound(N), f"upper bound {got} != {upper_bound(N)}")

    return extra


def _rc_lower_extra(payload):
    got = payload.get("certificate", {}).get("rho")
    return _expect(got == "3/2", f"certificate rho {got} != 3/2")


def _telescope_extra(payload):
    return _expect(payload.get("nu") == [0, 1, 3], "telescope selection differs")


def _density_extra(payload):
    return _expect(
        payload.get("dense") is True and payload.get("count") == 64,
        "van der Corput points not dense at epsilon 1/64",
    )


def _geo(N, H):
    return ("--N", str(N), "--horizon", str(H))


def write_spec(path: str, N: int, length: int, tail: bool) -> None:
    spec = {"d": [1] + [N ** n for n in range(1, length + 1)], "k": [0] + [1] * length}
    if tail:
        spec["tail"] = {"type": "geometric", "N": N}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def cli_mix_rounds(seed: int, workdir: str):
    """Six cycles per round; each cycle runs every documented subcommand once."""
    rng = random.Random(seed)
    r = 0
    while True:
        ops = []
        for c in range(6):
            def horizon(shift):
                lo, hi = BANDS[(c + r + shift) % 6]
                return rng.randint(lo, hi)

            N = CLI_NS[c]
            ops.append(Op(("certify",) + _geo(N, horizon(0)),
                          check=cli_check(certify_allowed(N), _certify_extra(N, True))))

            spec_N, tail = SPEC_NS[c % 3], c < 3
            length = horizon(3)
            path = os.path.join(workdir, f"spec-{r}-{c}.json")
            write_spec(path, spec_N, length, tail)
            allowed = {(0, CERTIFIED)} if tail else {(2, INCONCLUSIVE)}
            ops.append(Op(("certify", "--spec", path, "--horizon", str(length)),
                          check=cli_check(allowed, _certify_extra(spec_N, tail))))

            N = CLI_NS[(c + r) % 6]
            params_allowed = {(1, REFUTED)} if N in (3, 4) else {(0, CERTIFIED)}
            ops.append(Op(("params",) + _geo(N, horizon(1)),
                          check=cli_check(params_allowed)))
            ops.append(Op(("rc-upper",) + _geo(N, horizon(2)),
                          check=cli_check({(0, CERTIFIED)}, _upper_extra(N))))
            ops.append(Op(("telescope", "--nu", "0,1,3") + _geo(N, horizon(4)),
                          check=cli_check({(0, CERTIFIED)}, _telescope_extra)))

            lower_N = SPEC_NS[(c + r) % 3]
            ops.append(Op(("rc-lower", "--rho", "3/2") + _geo(lower_N, horizon(5)),
                          check=cli_check({(0, CERTIFIED)}, _rc_lower_extra)))

            k = CHERN_KS[(c + r) % 3]
            ops.append(Op(("chern", "--k", str(k)),
                          check=cli_check({(0, CERTIFIED)}, _chern_extra(k))))
            ops.append(Op(("trace-sim", "--stages", "4", "--grid", "64"),
                          check=cli_check({(0, CERTIFIED)}, _ladder_extra(4))))
            ops.append(Op(("density", "--van-der-corput", "64"),
                          check=cli_check({(0, CERTIFIED)}, _density_extra)))
        rng.shuffle(ops)
        yield ops
        r += 1


def _deep_check(N):
    def check(report):
        problems = _expect(
            (report.verdict, report.exit_code) == (CERTIFIED, 0),
            f"verdict {report.verdict} / exit {report.exit_code}, expected Certified / 0",
        )
        if report.rc_upper is None:
            return problems + ["no upper bound in a Certified report"]
        got = Fraction(report.rc_upper.certified_limit_bound)
        return problems + _expect(
            got == Fraction(N + 1, N - 1), f"upper bound {got} != {upper_bound(N)}"
        )

    return check


def certify_deep_rounds(seed: int, workdir: str):
    """Every (N, H) pair once per round, in seeded order."""
    rng = random.Random(seed)
    while True:
        ops = [
            Op(config={"N": N, "horizon": H}, check=_deep_check(N))
            for N in DEEP_NS
            for H in DEEP_HORIZONS
        ]
        rng.shuffle(ops)
        yield ops


def trace_ladder_rounds(seed: int, workdir: str):
    """Every (stages, grid) pair once per round, in seeded order."""
    rng = random.Random(seed)
    while True:
        ops = [
            Op(("trace-sim", "--stages", str(s), "--grid", str(g)),
               check=cli_check({(0, CERTIFIED)}, _ladder_extra(s)))
            for s in LADDER_STAGES
            for g in LADDER_GRIDS
        ]
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "cli-mix": cli_mix_rounds,
    "certify-deep": certify_deep_rounds,
    "trace-ladder": trace_ladder_rounds,
}
