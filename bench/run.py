"""ahcert benchmark: closed-loop workloads with a correctness gate.

Usage (from the repository root):

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

One client runs operations back to back (each starts when the previous
one finishes) through ``ahcert.cli.main(argv)`` or
``ahcert.certify_theorem(config)``, imported from ``src/`` of this
checkout.  Every operation is checked against hand-written expectations
(see workloads.py).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run and writes
its spans to ``bench/out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from spans import TRACED, Tracer
from workloads import WORKLOADS, CliResult, count_checks, count_object_checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SPAWNS = 9
WARMUP_S = 1.0
RERUN_SHARE = 1 / 8  # share of CLI ops re-run to check byte-identical output


def load_program():
    """Import ahcert from this checkout's src/, refusing any other copy."""
    if not (SRC / "ahcert" / "__init__.py").is_file():
        raise SystemExit(f"no ahcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ahcert
    import ahcert.cli
    import ahcert.pipeline

    if Path(ahcert.__file__).resolve().parent != SRC / "ahcert":
        raise SystemExit(f"imported ahcert from {ahcert.__file__}, not {SRC}")
    return ahcert


class CpuChooser:
    """Keeps this process on the CPU where a fixed probe currently runs fastest.

    On a shared host, neighbours slow one vCPU at a time, by up to 1.6x for
    seconds at a stretch.  Before an op, at most every PROBE_EVERY_S, the
    probe runs here; if it is more than SLACK slower than the best probe
    seen, every allowed CPU is probed and the process moves to the fastest.
    """

    PROBE_EVERY_S = 0.25
    SLACK = 1.15

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.best = float("inf")
        self.last = float("-inf")
        if len(self.cpus) > 1:
            self.move_to_fastest()

    @staticmethod
    def probe() -> float:
        start = time.perf_counter()
        x = Fraction(1)
        for i in range(1, 200):
            x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
        return time.perf_counter() - start

    def move_to_fastest(self):
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((self.probe(), cpu))
        fastest, cpu = min(timings)
        os.sched_setaffinity(0, {cpu})
        self.best = min(self.best, fastest)

    def settle(self):
        now = time.perf_counter()
        if len(self.cpus) < 2 or now - self.last < self.PROBE_EVERY_S:
            return
        self.last = now
        here = self.probe()
        if here > self.SLACK * self.best:
            self.move_to_fastest()
        else:
            self.best = min(self.best, here)


class SetupTimer:
    """Wall time for a fresh interpreter to import ahcert.cli.

    The SETUP_SPAWNS timed spawns are spread over the timed loop, one at
    most every ``every_s``, so that they see the same contention as the
    ops rather than one burst at the start.
    """

    CODE = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ahcert.cli"

    def __init__(self, cpus: CpuChooser, every_s: float):
        self.cpus = cpus
        self.every_s = every_s
        self.next_at = 0.0
        self.times = []
        self.spawn()  # unmeasured: the first spawn also writes bytecode

    def spawn(self) -> float:
        self.cpus.settle()
        start = time.perf_counter()
        # no timeout: Popen.wait polls with sleeps of up to 50 ms when given one
        subprocess.run([sys.executable, "-c", self.CODE], check=True)
        return time.perf_counter() - start

    def tick(self, elapsed: float):
        """Between ops: take the next timed spawn if one is due."""
        if len(self.times) < SETUP_SPAWNS and elapsed >= self.next_at:
            self.times.append(self.spawn())
            self.next_at = elapsed + self.every_s

    def median(self) -> float:
        while len(self.times) < SETUP_SPAWNS:  # a run shorter than planned
            self.times.append(self.spawn())
        return statistics.median(self.times)


class Loop:
    """Runs one workload's ops back to back and gates every result."""

    def __init__(self, ahcert, cpus, workload, seed, workdir, tracer=None):
        self.ahcert = ahcert
        self.cpus = cpus
        self.rounds = WORKLOADS[workload](seed, workdir)
        self.sample = random.Random(seed + 1)
        self.tracer = tracer
        self.render_attempts = workload == "certify-deep" and tracer is not None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_bytes = []
        self.report_checks = []
        self.render_failures = 0

    def call(self, op):
        """The timed part of an op: one call into the program."""
        if op.argv is None:
            start = time.perf_counter()
            result = self.ahcert.certify_theorem(dict(op.config))
            return time.perf_counter() - start, result
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.ahcert.cli.main(list(op.argv))
            elapsed = time.perf_counter() - start
        return elapsed, (code, out.getvalue(), err.getvalue())

    def run_op(self, op):
        """Run, time and gate one op; returns (seconds, passed)."""
        self.attempted += 1
        self.cpus.settle()
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            elapsed, raw = self.call(op)
            if self.render_attempts:
                try:
                    self.ahcert.pipeline.render_report(raw.to_jsonable())
                except ValueError:  # the 4300-digit limit on int -> str
                    self.render_failures += 1
        except Exception as exc:  # an op that raises is a failed op
            problem = f"raised {type(exc).__name__}: {exc}"[:300]
            return self.fail(op, [problem], time.perf_counter() - start)
        finally:
            if tracer is not None:
                tracer.active = False
        problems = self.gate(op, raw)
        if problems:
            return self.fail(op, problems, elapsed)
        return elapsed, True

    def gate(self, op, raw):
        if op.argv is None:
            self.report_checks.append(count_object_checks(raw))
            return op.check(raw)
        code, stdout, stderr = raw
        try:
            payload = json.loads(stdout)
        except ValueError:
            payload = None
        problems = op.check(CliResult(code, stdout, stderr, payload))
        self.report_bytes.append(len(stdout.encode()))
        self.report_checks.append(count_checks(payload))
        if self.sample.random() < RERUN_SHARE:
            canonical = json.dumps(payload, sort_keys=True, indent=2) + "\n"
            if stdout != canonical:
                problems.append("report is not canonical JSON")
            if self.call(op)[1] != raw:
                problems.append("re-run output is not byte-identical")
        return problems

    def fail(self, op, problems, elapsed):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.argv or op.config}: {'; '.join(problems)}")
        return elapsed, False

    def warm_up(self):
        """Run ops (at least one) for WARMUP_S, then drop the rest of that round."""
        start = time.perf_counter()
        for op in next(self.rounds):
            self.run_op(op)
            if time.perf_counter() - start >= WARMUP_S:
                break

    def measure(self, seconds, setup=None):
        """Whole rounds until ``seconds`` have passed; returns per-round
        samples and the wall time.  ``setup``, if given, takes its spawns
        between ops."""
        rounds = []
        start = time.perf_counter()
        while True:
            samples = []
            for op in next(self.rounds):
                samples.append(self.run_op(op))
                if setup is not None:
                    setup.tick(time.perf_counter() - start)
            rounds.append(samples)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return rounds, elapsed


def throughput(rounds) -> float:
    """Passed ops per second of time spent inside the program."""
    samples = [s for r in rounds for s in r]
    return sum(ok for _, ok in samples) / sum(t for t, _ in samples)


def end_to_end(ahcert, cpus, args, workdir):
    setup = SetupTimer(cpus, args.seconds / SETUP_SPAWNS)
    loop = Loop(ahcert, cpus, args.workload, args.seed, workdir)
    loop.warm_up()
    rounds, wall = loop.measure(args.seconds, setup)
    times = [t for r in rounds for t, _ in r]
    p75 = statistics.quantiles(times, n=4)[2]
    beyond_p75 = sum(t > p75 for t in times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} rounds, {len(times)} timed ops "
        f"in {wall:.2f} s; {beyond_p75} samples beyond p75"
        + ("" if beyond_p75 >= 10 else " (fewer than ten)")
    )
    metrics = {
        "setup_s": (setup.median(), "s"),
        "ops_per_s": (throughput(rounds), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p75": (p75, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    return loop, metrics


def per_layer(ahcert, cpus, args, workdir):
    half = args.seconds / 2
    plain = Loop(ahcert, cpus, args.workload, args.seed, workdir)
    plain.warm_up()
    plain_rounds, _ = plain.measure(half)

    tracer = Tracer()
    tracer.install()
    try:  # the untraced half has already warmed the process up
        loop = Loop(ahcert, cpus, args.workload, args.seed, workdir, tracer)
        rounds, wall = loop.measure(half)
    finally:
        tracer.uninstall()
    ops = sum(len(r) for r in rounds)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(trace_path)
    print(
        f"{args.workload} seed {args.seed}: traced {ops} ops in {wall:.2f} s; "
        f"spans in {trace_path.relative_to(ROOT)}"
    )
    if tracer.missing:
        print(f"not found, reported as zero: {', '.join(tracer.missing)}")

    metrics = {}
    for name, _, _ in TRACED:
        metrics[f"{name}.calls"] = (tracer.calls[name] / ops, "calls/op")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / ops, "s/op")
    metrics["report.checks"] = (statistics.fmean(loop.report_checks), "checks/report")
    metrics["report.kb"] = (
        statistics.mean(loop.report_bytes) / 1000 if loop.report_bytes else 0.0,
        "kB",
    )
    metrics["rationals.max_bits"] = (tracer.max_bits, "bits")
    metrics["pipeline.render.failures"] = (loop.render_failures / ops, "1/op")
    metrics["trace.overhead"] = (throughput(rounds) / throughput(plain_rounds), "ratio")
    loop.attempted += plain.attempted
    loop.failed += plain.failed
    loop.problems += plain.problems
    return loop, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ahcert = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="specs-", dir=OUT)
    try:
        run = per_layer if args.trace else end_to_end
        loop, metrics = run(ahcert, CpuChooser(), args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in loop.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
